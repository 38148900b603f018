"""The update package: the change-set model and its .satpkg wire format.

This module is the one owner of what an update package is: the
:class:`ChangeSet` model, the units its ops count, the codecs of chunk
runs and the version 4 bytes. The ground differ (:mod:`satpatch.diffgen`)
builds change sets and the onboard replay (:mod:`satpatch.reconstruct`)
consumes them; neither defines them.

A patch carries a run-length script of R (retain), D (delete) and I
(insert) ops, plus X (patch) ops in a chunk patch, and one segment per I
or X run. Ops count lines (as :func:`split_lines` cuts them) in a text
patch and bytes in a chunk patch, so the receiver replays byte spans and
never chunks. A text insert run is raw. A chunk insert run is
delta-coded (:func:`delta_encode`, :func:`delta_decode`): a raw deflate
stream (``zlib`` wbits -15, level 9) whose preset dictionary is
``old[max(0, p - 32768):p]``, where ``p`` is the old-content offset the
script has reached at the run, after any delete before it, and it must
inflate to exactly the run's I count. An X run of n consumes n old bytes
and yields n new bytes that differ from them only where its segment says
(:func:`patch_encode`, :func:`patch_decode`): the segment is (LEB128 gap,
nonzero XOR byte) pairs, one per changed byte, where the gap counts the
bytes since the previous changed byte ended. A run may span any bytes, so
the ground spans a whole aligned stretch, unchanged bytes included, with
one. The rules depend only on the op and change kind, so no flag travels
with a run.

The container (all integers big-endian) is gzip'd as a whole at level 9
with a zeroed timestamp, so identical change sets encode to identical
bytes:

    magic "SATL" | u8 version (4) | 16 reserved zero bytes
    32B source tree digest | 32B target tree digest
    u64 manifest length | manifest (UTF-8 text, one line per change)
    u32 record count
    per record: u16 path length | path | u32 run index | u64 length | bytes

Decode refuses a nonzero reserved byte. Manifest lines are tab-separated:
change code, percent-encoded path, and for patches an op string such as
``R5 D2 I3`` (``R5 X4096 R9`` in a chunk patch). Records are keyed by
(UTF-8 path bytes, run index), one per I or X run of a patch, counted in
op order, and one, run 0, per inserted file. Encode writes them in
manifest order, and decode requires exactly these records in it.

Decoding inflates the container only as far as the fields read so far
need, refuses a record whose header is not the next key before reading
its bytes, and builds each FileChange, which checks its own structure,
once its records are read; what needs the old content is left to the
replay. Failures are typed PackageError subclasses; decode touches no file.
"""

from __future__ import annotations

import gzip
import io
import struct
import urllib.parse
import zlib
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    BadMagicError,
    CorruptPackageError,
    DeltaRunError,
    ManifestError,
    PackageInconsistencyError,
    PathError,
    TruncatedPackageError,
    UnsupportedVersionError,
)
from .fstree import normalize_path

RETAIN = "R"
DELETE = "D"
INSERT = "I"
PATCH = "X"


# -- the change-set model -----------------------------------------------------


class EditOp(NamedTuple):
    """One run-length edit: retain/delete/insert/patch ``count`` units,
    where a unit is a line in text scripts and a byte in chunk scripts.
    Plain data: a package's ops are checked once, when its manifest is
    parsed."""

    kind: str
    count: int


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

    Patches carry an edit script plus one segment per I or X run, in op
    order (delta-coded or sparse for chunk patches). A file insert is a
    single segment holding the whole content.

    A FileChange checks the structure that needs no old content when it is
    built: one segment per run, and each text insert run exactly as many
    lines as its op counts. Chunk runs are checked when they replay
    against the old content. Raises PackageInconsistencyError.
    """

    path: str
    kind: ChangeKind
    ops: tuple[EditOp, ...] = ()
    segments: tuple[bytes, ...] = ()

    def __post_init__(self):
        needed = insert_runs(self.kind, self.ops)
        if len(self.segments) != needed:
            raise PackageInconsistencyError(
                f"{needed} runs but {len(self.segments)} segments", self.path
            )
        if self.kind is not ChangeKind.TEXT_PATCH:
            return
        runs = [op for op in self.ops if op.kind == INSERT]
        for run, (op, segment) in enumerate(zip(runs, self.segments)):
            # the count of split_lines, without one bytes object per line:
            # an unterminated tail is one more line
            lines = segment.count(b"\n") + (segment[-1:] not in (b"", b"\n"))
            if lines != op.count:
                raise PackageInconsistencyError(
                    f"insert run {run} splits into {lines} lines, op covers {op.count}",
                    self.path,
                )


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


def insert_runs(kind: ChangeKind, ops: tuple[EditOp, ...]) -> int:
    """How many segments a change of ``kind`` with ``ops`` must carry:
    one per I run of a patch and per X run of a chunk patch."""
    if kind is ChangeKind.FILE_INSERT:
        return 1
    if kind is ChangeKind.TEXT_PATCH:
        return sum(1 for op in ops if op.kind == INSERT)
    if kind is ChangeKind.CHUNK_PATCH:
        return sum(1 for op in ops if op.kind in (INSERT, PATCH))
    return 0


def split_lines(data: bytes) -> list[bytes]:
    """Split into lines, each keeping its 0x0A terminator. Binary
    ``readlines`` breaks at 0x0A only and keeps an unterminated tail as
    its own line, so the concatenation of the result is the input."""
    return io.BytesIO(data).readlines()


def unit_edges(content: bytes, kind: ChangeKind) -> Sequence[int]:
    """Byte offsets of the op units of ``content`` in a patch of ``kind``:
    unit k is ``content[edges[k]:edges[k + 1]]``. A text unit is a line
    (as :func:`split_lines` cuts it), a chunk unit a byte. Lines are read
    one at a time, so only their edges are held."""
    if kind is ChangeKind.TEXT_PATCH:
        return list(accumulate(map(len, io.BytesIO(content)), initial=0))
    return range(len(content) + 1)


# -- delta-coded chunk insert runs ---------------------------------------------

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


def delta_decode(segment: bytes, old: bytes, pos: int, span: int, path: str) -> bytes:
    """Inflate a run :func:`delta_encode` coded at old offset ``pos``;
    never yields more than ``span`` bytes, and raises DeltaRunError (naming
    ``path``) unless it is one whole stream of exactly ``span`` bytes."""
    inflater = zlib.decompressobj(-15, zdict=delta_dictionary(old, pos))
    try:
        run = inflater.decompress(segment, span)
    except zlib.error as exc:
        raise DeltaRunError(f"{path!r}: insert run at byte {pos} is damaged: {exc}") from exc
    if not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise DeltaRunError(
            f"{path!r}: insert run at byte {pos} does not end after {span} bytes"
        )
    if len(run) != span:
        raise DeltaRunError(
            f"{path!r}: insert run at byte {pos} inflates to {len(run)} bytes, "
            f"op spans {span}"
        )
    return run


# -- sparse chunk patch runs ----------------------------------------------------

def patch_encode(changed: Sequence[int], xors: bytes, start: int) -> bytes:
    """Segment of an X run: one (LEB128 gap, nonzero XOR byte) pair per
    changed byte, where the gap counts the bytes since the previous
    changed byte ended.

    ``changed`` lists the offsets of the changed bytes in increasing
    order, and ``xors`` the XOR of the old and the new byte at each. The
    first gap counts from offset ``start``: where the run begins or, when
    a run is coded a piece at a time, one past the last changed byte of
    the piece before, so the pieces' segments concatenate to the run's.
    Work follows the changed bytes alone, not the span. Which bytes are
    patched is the differ's decision; this only codes them.
    """
    out = bytearray()
    end = start  # where the previous changed byte ended
    for at, xor in zip(changed, xors):
        skip = at - end
        while skip > 0x7F:
            out.append(skip & 0x7F | 0x80)
            skip >>= 7
        out.append(skip)
        out.append(xor)
        end = at + 1
    return bytes(out)


def _patch_pairs(segment: bytes, where: str) -> Iterator[tuple[int, int]]:
    """The (gap, XOR byte) pairs of an X run's segment, in order. Raises
    DeltaRunError (naming ``where``) for an empty segment, a cut or
    non-minimal gap, or a zero XOR byte."""
    if not segment:
        raise DeltaRunError(f"{where} is empty")
    i, n = 0, len(segment)
    while i < n:
        gap = shift = 0
        while True:
            byte = segment[i]
            i += 1
            gap |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            if i == n:
                raise DeltaRunError(f"{where} ends inside a gap")
            shift += 7
        if shift and not byte:
            raise DeltaRunError(f"{where} has a gap that is not minimal")
        if i == n:
            raise DeltaRunError(f"{where} ends before a XOR byte")
        xor = segment[i]
        i += 1
        if not xor:
            raise DeltaRunError(f"{where} has a zero XOR byte")
        yield gap, xor


def patch_decode(
    segment: bytes, old: memoryview, pos: int, span: int, path: str
) -> list[bytes | memoryview]:
    """The pieces of the ``span`` new bytes that an X run at old offset
    ``pos`` yields: views of ``old`` with each patched byte between them,
    so joining them is the only copy. Raises DeltaRunError (naming
    ``path``) for an empty segment, a cut or non-minimal gap, a zero XOR
    byte, or a position at or past the span.
    """
    where = f"{path!r}: patch run at byte {pos}"
    pieces: list[bytes | memoryview] = []
    start, stop = pos, pos + span
    for gap, xor in _patch_pairs(segment, where):
        at = start + gap
        if at >= stop:
            raise DeltaRunError(f"{where} patches byte {at - pos} of a {span}-byte span")
        if at > start:
            pieces.append(old[start:at])
        pieces.append(bytes((old[at] ^ xor,)))
        start = at + 1
    if stop > start:
        pieces.append(old[start:stop])
    return pieces


# -- wire format ----------------------------------------------------------------

MAGIC = b"SATL"
PACKAGE_VERSION = 4

_DIGEST_LEN = 32
#: Zero header bytes after the version (the chunker's constants up to v3).
_RESERVED_LEN = 16
_CODES = {kind.value: kind for kind in ChangeKind}


def gzip_bytes(data: bytes) -> bytes:
    """Deterministic gzip: level 9, zero timestamp. ``GzipFile`` rather
    than ``gzip.compress``, whose header names the host's OS."""
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=9, mtime=0) as gz:
        gz.write(data)
    return buf.getvalue()


def _format_ops(ops: tuple[EditOp, ...]) -> str:
    return " ".join(f"{op.kind}{op.count}" for op in ops)


def _parse_ops(
    text: str, kind: ChangeKind, line_no: int, path: str
) -> tuple[EditOp, ...]:
    """The one check of ops from outside: R, D or I, or X in a chunk
    patch, and a positive count."""
    letters = "RDIX" if kind is ChangeKind.CHUNK_PATCH else "RDI"
    ops = []
    for token in text.split(" "):
        if not token or token[0] not in letters:
            raise ManifestError(f"bad op token {token!r}", line_no, path)
        count = token[1:]
        # ASCII digits only, and few enough that the count fits a C ssize_t.
        if not (count.isascii() and count.isdigit()) or len(count) > 18 or int(count) < 1:
            raise ManifestError(f"bad op count in {token!r}", line_no, path)
        ops.append(EditOp(token[0], int(count)))
    return tuple(ops)


def _encode_manifest(changes: tuple[FileChange, ...]) -> bytes:
    lines = []
    for change in changes:
        fields = [change.kind.value, urllib.parse.quote(change.path, safe="/")]
        if change.kind in PATCH_KINDS:
            fields.append(_format_ops(change.ops))
        lines.append("\t".join(fields))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _decode_manifest(blob: bytes) -> list[tuple[str, ChangeKind, tuple[EditOp, ...]]]:
    """``(path, kind, ops)`` per manifest line; ops are () but for patches."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not valid UTF-8: {exc}")
    entries = []
    for line_no, line in enumerate(text.split("\n")[:-1], start=1):
        fields = line.split("\t")
        if len(fields) < 2:
            raise ManifestError("too few fields", line_no)
        kind = _CODES.get(fields[0])
        if kind is None:
            raise ManifestError(f"unknown change code {fields[0]!r}", line_no)
        try:
            path = normalize_path(urllib.parse.unquote(fields[1], errors="strict"))
        except (UnicodeDecodeError, PathError) as exc:
            raise ManifestError(f"bad path field: {exc}", line_no)
        if kind in PATCH_KINDS:
            if len(fields) != 3:
                raise ManifestError("patch line needs an op field", line_no, path)
            entries.append((path, kind, _parse_ops(fields[2], kind, line_no, path)))
        else:
            if len(fields) != 2:
                raise ManifestError("unexpected extra fields", line_no, path)
            entries.append((path, kind, ()))
    if text and not text.endswith("\n"):
        raise ManifestError("manifest not newline-terminated", len(entries) + 1)
    return entries


def encode_package(changeset: ChangeSet) -> bytes:
    """Serialize and compress a ChangeSet. Deterministic."""
    manifest = _encode_manifest(changeset.changes)
    parts = [
        MAGIC,
        struct.pack(">B", PACKAGE_VERSION),
        bytes(_RESERVED_LEN),
        changeset.source_digest,
        changeset.target_digest,
        struct.pack(">Q", len(manifest)),
        manifest,
        struct.pack(">I", sum(len(c.segments) for c in changeset.changes)),
    ]
    for change in changeset.changes:
        path_bytes = change.path.encode("utf-8")
        for run, segment in enumerate(change.segments):
            parts.append(struct.pack(">H", len(path_bytes)))
            parts.append(path_bytes)
            parts.append(struct.pack(">IQ", run, len(segment)))
            parts.append(segment)
    return gzip_bytes(b"".join(parts))


class _Container:
    """Bounded reader over the gzip'd container.

    It inflates only as far as the fields read so far need, plus at most
    one step, so a declared length can never make decode hold more bytes
    than the package really carries, and a record can be refused from its
    header before its payload is inflated. One call inflates at most
    ``_MAX_STEP`` bytes: ``max_length`` is a C ssize_t, and a declared
    u64 length must end in TruncatedPackageError, not OverflowError.
    """

    _IN_STEP = 1 << 14
    _OUT_STEP = 1 << 16
    _MAX_STEP = 1 << 24

    def __init__(self, blob: bytes):
        self._blob = memoryview(blob)
        self._fed = 0
        self._inflater = zlib.decompressobj(wbits=31)
        self._buf = b""
        self._pos = 0

    def _inflate(self, want: int) -> bytes:
        """Up to ``want`` more container bytes; b"" at the end of the stream."""
        inflater = self._inflater
        while not inflater.eof:
            data = inflater.unconsumed_tail
            if not data:
                if self._fed == len(self._blob):
                    raise TruncatedPackageError("compressed stream truncated")
                data = self._blob[self._fed : self._fed + self._IN_STEP]
                self._fed += len(data)
            try:
                out = inflater.decompress(data, want)
            except zlib.error as exc:
                raise CorruptPackageError(f"compressed stream damaged: {exc}") from exc
            if out:
                return out
        return b""

    def take(self, n: int, what: str) -> bytes:
        end = self._pos + n
        if end <= len(self._buf):
            piece = self._buf[self._pos : end]
            self._pos = end
            return piece
        parts = [self._buf[self._pos :]]
        need = n - len(parts[0])
        while need > 0:
            out = self._inflate(min(max(need, self._OUT_STEP), self._MAX_STEP))
            if not out:
                raise TruncatedPackageError(
                    f"package ends inside {what} ({need} of {n} bytes missing)"
                )
            parts.append(out[:need])
            self._buf = out
            self._pos = min(need, len(out))
            need -= self._pos
        return b"".join(parts)

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def finish(self) -> None:
        """Require the container and the compressed stream to end here."""
        if self._pos < len(self._buf) or self._inflate(1):
            raise CorruptPackageError("trailing bytes after last segment")
        if self._inflater.unused_data or self._fed < len(self._blob):
            raise CorruptPackageError("data after the end of the compressed stream")


def decode_package(blob: bytes) -> ChangeSet:
    """Parse and validate a package; raises a PackageError subclass."""
    return _decode(blob)[0]


def _decode(blob: bytes) -> tuple[ChangeSet, int]:
    """The decoded package and the manifest length it declared."""
    cur = _Container(blob)
    if cur.take(len(MAGIC), "magic") != MAGIC:
        raise BadMagicError("not a satpatch package")
    (version,) = cur.unpack(">B", "version")
    if version != PACKAGE_VERSION:
        raise UnsupportedVersionError(f"package version {version} not supported")
    if any(cur.take(_RESERVED_LEN, "reserved bytes")):
        raise CorruptPackageError("reserved header bytes are not zero")
    source_digest = cur.take(_DIGEST_LEN, "source digest")
    target_digest = cur.take(_DIGEST_LEN, "target digest")
    (manifest_len,) = cur.unpack(">Q", "manifest length")
    entries = _decode_manifest(cur.take(manifest_len, "manifest"))
    runs = [insert_runs(kind, ops) for _, kind, ops in entries]
    claimed = [path for (path, _, _), n in zip(entries, runs) if n]
    if len(set(claimed)) != len(claimed):
        raise PackageInconsistencyError("manifest lists a path's runs twice")
    (record_count,) = cur.unpack(">I", "segment count")
    if record_count != sum(runs):
        raise PackageInconsistencyError(f"{record_count} records, {sum(runs)} runs")
    changes = []
    for (path, kind, ops), n in zip(entries, runs):
        want_path = path.encode("utf-8")
        segments = []
        for want_run in range(n):
            (path_len,) = cur.unpack(">H", "segment path length")
            got_path = cur.take(path_len, "segment path")
            run, seg_len = cur.unpack(">IQ", "segment header")
            if (got_path, run) != (want_path, want_run):
                raise PackageInconsistencyError(
                    f"record {got_path!r} run {run} where {want_path!r} run {want_run} is next"
                )
            segments.append(cur.take(seg_len, "segment data"))
        changes.append(FileChange(path, kind, ops, tuple(segments)))
    cur.finish()
    return ChangeSet(source_digest, target_digest, tuple(changes)), manifest_len


def wire_layout(blob: bytes) -> dict:
    """Uncompressed bytes of a package's parts: the manifest as it is on
    the wire, and the segment records split by change kind and by path.
    Decodes the package and reads the pairs of every X record, so it
    raises a PackageError subclass, CorruptPackageError for an X record
    that is not (gap, XOR byte) pairs.

    For each kind, ``inserted`` is the bytes its I runs and inserted files
    yield, ``patched`` the bytes its X runs yield, the unchanged bytes
    inside a run included, and ``changed`` the pairs their records carry,
    one per byte the runs change (chunk patches only); against
    ``segment_bytes`` they show what the coding of chunk runs saves.
    """
    changeset, manifest_len = _decode(blob)
    kinds: dict[str, dict[str, int]] = {}
    paths: dict[str, int] = {}
    for change in changeset.changes:
        row = kinds.setdefault(
            change.kind.name,
            {"changes": 0, "segment_bytes": 0, "inserted": 0, "patched": 0, "changed": 0},
        )
        row["changes"] += 1
        sent = sum(map(len, change.segments))
        row["segment_bytes"] += sent
        if change.kind is ChangeKind.CHUNK_PATCH:
            seg = iter(change.segments)
            for op in change.ops:
                if op.kind == INSERT:
                    row["inserted"] += op.count
                    next(seg)
                elif op.kind == PATCH:
                    row["patched"] += op.count
                    where = f"{change.path!r}: patch run"
                    try:
                        row["changed"] += sum(1 for _ in _patch_pairs(next(seg), where))
                    except DeltaRunError as exc:
                        raise CorruptPackageError(str(exc)) from exc
        else:
            row["inserted"] += sent
        if sent:
            paths[change.path] = paths.get(change.path, 0) + sent
    return {
        "manifest_bytes": manifest_len,
        "segment_bytes": changeset.segment_bytes(),
        "kinds": kinds,
        "paths": sorted(paths.items(), key=lambda kv: (-kv[1], kv[0])),
    }
