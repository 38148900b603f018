"""Onboard reconstruction: replay a ChangeSet against the installed tree.

Apply is transactional. The input FileTree is never mutated; the updated
tree is built on the side and only returned once every edit script
replayed cleanly and the result's digest equals the packaged target
digest. Any failure raises an ApplyError subclass and leaves the caller's
tree exactly as it was.

Chunk-mode scripts are replayed as byte spans, so the receiver never
re-chunks its local content; each insert run inflates against the old
bytes before it (see :mod:`satpatch.package` for the wire rule).
"""

from __future__ import annotations

import os
import shutil
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .diffgen import (
    ChangeKind,
    ChangeSet,
    FileChange,
    INSERT,
    RETAIN,
    check_segments,
    delta_dictionary,
    split_lines,
)
from .errors import (
    BaseVersionMismatchError,
    DeltaRunError,
    DigestMismatchError,
    EditScriptError,
    TreeError,
)
from .fstree import Entry, EntryKind, FileTree, materialize, parent_path, tree_digest
from .package import decode_package


@dataclass(frozen=True)
class ApplyReport:
    """What an apply did: entry counts, payload size, resulting digest.

    An apply that returns a report has verified both digests, so
    ``target_digest`` is always the packaged one.
    """

    files_added: int = 0
    files_deleted: int = 0
    files_patched: int = 0
    dirs_added: int = 0
    dirs_deleted: int = 0
    bytes_received: int = 0
    bytes_written: int = 0
    target_digest: bytes = b""

    @property
    def changes_applied(self) -> int:
        return (
            self.files_added
            + self.files_deleted
            + self.files_patched
            + self.dirs_added
            + self.dirs_deleted
        )


def _replay_lines(old: bytes, change: FileChange) -> bytes:
    check_segments(change)
    lines = split_lines(old)
    out: list[bytes] = []
    pos = 0
    seg = iter(change.segments)
    for op in change.ops:
        if op.kind == INSERT:
            out.append(next(seg))
            continue
        if pos + op.count > len(lines):
            raise EditScriptError(
                f"{change.path!r}: script walks past line {len(lines)}"
            )
        if op.kind == RETAIN:
            out.extend(lines[pos : pos + op.count])
        pos += op.count
    if pos != len(lines):
        raise EditScriptError(
            f"{change.path!r}: script consumed {pos} of {len(lines)} lines"
        )
    return b"".join(out)


def _inflate_run(segment: bytes, old: bytes, pos: int, span: int, path: str) -> bytes:
    """Inflate a delta-coded insert run; never yields more than ``span``
    bytes, and fails closed unless it is exactly one whole stream of
    exactly ``span`` bytes."""
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


def _replay_chunks(old: bytes, change: FileChange) -> bytes:
    check_segments(change)
    out: list[bytes] = []
    pos = 0
    seg = iter(change.segments)
    for op in change.ops:
        if op.kind == INSERT:
            out.append(_inflate_run(next(seg), old, pos, op.count, change.path))
            continue
        if pos + op.count > len(old):
            raise EditScriptError(
                f"{change.path!r}: script walks past byte {len(old)}"
            )
        if op.kind == RETAIN:
            out.append(old[pos : pos + op.count])
        pos += op.count
    if pos != len(old):
        raise EditScriptError(
            f"{change.path!r}: script consumed {pos} of {len(old)} bytes"
        )
    return b"".join(out)


def apply_file(old: bytes, change: FileChange) -> bytes:
    """Replay a single patch against old file content."""
    if change.kind is ChangeKind.TEXT_PATCH:
        return _replay_lines(old, change)
    if change.kind is ChangeKind.CHUNK_PATCH:
        return _replay_chunks(old, change)
    raise EditScriptError(f"{change.path!r}: not a patch change ({change.kind})")


def apply_changeset(tree: FileTree, changeset: ChangeSet) -> tuple[FileTree, ApplyReport]:
    """Apply a ChangeSet, returning the new tree and a report.

    A delta built against a different base is rejected before any replay,
    and a result whose digest is not the packaged target digest is
    rejected after it.
    """
    if tree_digest(tree) != changeset.source_digest:
        raise BaseVersionMismatchError(
            f"package was built against source {changeset.source_digest.hex()[:16]}, "
            f"tree digest is {tree_digest(tree).hex()[:16]}"
        )
    entries = dict(tree.items())
    children = Counter(parent_path(p) for p in entries)
    added_f = deleted_f = patched = added_d = deleted_d = written = 0
    for change in changeset.changes:
        path = change.path
        entry = entries.get(path)
        kind = change.kind
        if kind is ChangeKind.FILE_DELETE:
            if entry is None or not entry.is_file:
                raise EditScriptError(f"{path!r}: no such file to delete")
            del entries[path]
            children[parent_path(path)] -= 1
            deleted_f += 1
        elif kind is ChangeKind.DIR_DELETE:
            if entry is None or not entry.is_dir:
                raise EditScriptError(f"{path!r}: no such directory to delete")
            if children[path]:
                raise EditScriptError(f"{path!r}: directory still has children")
            del entries[path]
            children[parent_path(path)] -= 1
            deleted_d += 1
        elif kind is ChangeKind.DIR_INSERT:
            if entry is not None:
                raise EditScriptError(f"{path!r}: insert over existing entry")
            entries[path] = Entry(EntryKind.DIRECTORY)
            children[parent_path(path)] += 1
            added_d += 1
        elif kind is ChangeKind.FILE_INSERT:
            if entry is not None:
                raise EditScriptError(f"{path!r}: insert over existing entry")
            check_segments(change)
            entries[path] = Entry(EntryKind.FILE, change.segments[0])
            children[parent_path(path)] += 1
            written += len(change.segments[0])
            added_f += 1
        else:
            if entry is None or not entry.is_file:
                raise EditScriptError(f"{path!r}: no such file to patch")
            content = apply_file(entry.content, change)
            entries[path] = Entry(EntryKind.FILE, content)
            written += len(content)
            patched += 1
    try:
        new_tree = FileTree(tree.root_label, entries)
    except TreeError as exc:
        raise EditScriptError(f"result is not a valid tree: {exc}") from exc
    result_digest = tree_digest(new_tree)
    if result_digest != changeset.target_digest:
        raise DigestMismatchError(
            changeset.target_digest.hex(), result_digest.hex()
        )
    report = ApplyReport(
        files_added=added_f,
        files_deleted=deleted_f,
        files_patched=patched,
        dirs_added=added_d,
        dirs_deleted=deleted_d,
        bytes_received=changeset.segment_bytes(),
        bytes_written=written,
        target_digest=result_digest,
    )
    return new_tree, report


def apply_package(tree: FileTree, blob: bytes) -> tuple[FileTree, ApplyReport]:
    """Decode a package and apply it. Decode errors surface before any
    replay work starts, so a damaged package can never half-apply.
    """
    return apply_changeset(tree, decode_package(blob))


def replace_directory(tree: FileTree, dest: str | Path) -> None:
    """Swap ``dest`` to hold ``tree``, building the new copy on the side.

    The new tree is materialized next to ``dest`` and moved into place
    with two renames. A crash can leave a ``.old``/``.new`` sibling
    behind but never a half-written ``dest``.
    """
    dest = Path(dest)
    if not dest.is_dir():
        raise TreeError(f"not a directory: {dest}")
    staging = dest.parent / (dest.name + ".satpatch-new")
    retired = dest.parent / (dest.name + ".satpatch-old")
    for leftover in (staging, retired):
        if leftover.exists():
            shutil.rmtree(leftover)
    materialize(tree, staging)
    os.rename(dest, retired)
    os.rename(staging, dest)
    shutil.rmtree(retired)
