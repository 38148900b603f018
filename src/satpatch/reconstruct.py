"""Onboard reconstruction: replay a ChangeSet against the installed tree.

Apply is transactional. The input FileTree is never mutated; the updated
tree is built on the side and only returned once every edit script
replayed cleanly and the result's digest equals the packaged target
digest. Any failure raises an ApplyError subclass and leaves the caller's
tree exactly as it was.

Apply checks a change only against the old content: its structure was
checked when the FileChange was built, at decode for a package. One loop
replays both patch kinds through the old content's unit edges (lines of
a text patch, bytes of a chunk patch), so the receiver never re-chunks
its local content; each chunk insert run inflates against the old bytes
before it through :func:`satpatch.package.delta_decode`, and each X run
is the old span with its changed bytes patched in
(:func:`satpatch.package.patch_decode`), with no inflater. The model and
its rules come from :mod:`satpatch.package` alone, so this module never
imports the ground differ.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BaseVersionMismatchError,
    DigestMismatchError,
    EditScriptError,
    TreeError,
)
from .fstree import Entry, FileTree, materialize, tree_digest
from .package import (
    INSERT,
    PATCH,
    PATCH_KINDS,
    RETAIN,
    ChangeKind,
    ChangeSet,
    FileChange,
    decode_package,
    delta_decode,
    patch_decode,
    unit_edges,
)


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


def apply_file(old: bytes, change: FileChange) -> bytes:
    """Replay a single patch of either kind against old file content: a
    retain takes the old bytes between two unit edges, a chunk insert run
    inflates against the old bytes before its edge, and an X run patches
    its changed bytes into the old span it consumes.

    Retained spans and the unchanged bytes of X runs are views of
    ``old``, so the new content is the only copy made of them.
    """
    if change.kind not in PATCH_KINDS:
        raise EditScriptError(f"{change.path!r}: not a patch change ({change.kind})")
    chunked = change.kind is ChangeKind.CHUNK_PATCH
    unit = "byte" if chunked else "line"
    edges = unit_edges(old, change.kind)
    units = len(edges) - 1
    view = memoryview(old)
    out: list[bytes | memoryview] = []
    pos = 0
    seg = iter(change.segments)
    for op in change.ops:
        if op.kind == INSERT:
            run = next(seg)
            if chunked:
                run = delta_decode(run, old, edges[pos], op.count, change.path)
            out.append(run)
            continue
        end = pos + op.count
        if end > units:
            raise EditScriptError(f"{change.path!r}: script walks past {unit} {units}")
        if op.kind == RETAIN:
            out.append(view[edges[pos] : edges[end]])
        elif op.kind == PATCH:
            if not chunked:
                raise EditScriptError(f"{change.path!r}: patch run in a line script")
            out.extend(patch_decode(next(seg), view, pos, op.count, change.path))
        pos = end
    if pos != units:
        raise EditScriptError(
            f"{change.path!r}: script consumed {pos} of {units} {unit}s"
        )
    return b"".join(out)


def apply_changeset(tree: FileTree, changeset: ChangeSet) -> tuple[FileTree, ApplyReport]:
    """Apply a ChangeSet, returning the new tree and a report.

    A delta built against a different base is rejected before any replay,
    and a result whose digest is not the packaged target digest is
    rejected after it.
    """
    source_digest = tree_digest(tree)
    if source_digest != changeset.source_digest:
        raise BaseVersionMismatchError(
            f"package was built against source {changeset.source_digest.hex()[:16]}, "
            f"tree digest is {source_digest.hex()[:16]}"
        )
    entries = dict(tree.items())
    written = 0
    for change in changeset.changes:
        path = change.path
        entry = entries.get(path)
        kind = change.kind
        if kind is ChangeKind.FILE_DELETE:
            if entry is None or not entry.is_file:
                raise EditScriptError(f"{path!r}: no such file to delete")
            del entries[path]
        elif kind is ChangeKind.DIR_DELETE:
            if entry is None or not entry.is_dir:
                raise EditScriptError(f"{path!r}: no such directory to delete")
            del entries[path]
        elif kind is ChangeKind.DIR_INSERT:
            if entry is not None:
                raise EditScriptError(f"{path!r}: insert over existing entry")
            entries[path] = Entry()
        elif kind is ChangeKind.FILE_INSERT:
            if entry is not None:
                raise EditScriptError(f"{path!r}: insert over existing entry")
            entries[path] = Entry(change.segments[0])
            written += len(change.segments[0])
        else:
            if entry is None or not entry.is_file:
                raise EditScriptError(f"{path!r}: no such file to patch")
            content = apply_file(entry.content, change)
            entries[path] = Entry(content)
            written += len(content)
    # A directory deleted under its children leaves them without a parent,
    # which FileTree refuses; the target digest decides everything else.
    try:
        new_tree = FileTree(tree.root_label, entries)
    except TreeError as exc:
        raise EditScriptError(f"result is not a valid tree: {exc}") from exc
    result_digest = tree_digest(new_tree)
    if result_digest != changeset.target_digest:
        raise DigestMismatchError(
            changeset.target_digest.hex(), result_digest.hex()
        )
    kinds = Counter(c.kind for c in changeset.changes)
    report = ApplyReport(
        files_added=kinds[ChangeKind.FILE_INSERT],
        files_deleted=kinds[ChangeKind.FILE_DELETE],
        files_patched=kinds[ChangeKind.TEXT_PATCH] + kinds[ChangeKind.CHUNK_PATCH],
        dirs_added=kinds[ChangeKind.DIR_INSERT],
        dirs_deleted=kinds[ChangeKind.DIR_DELETE],
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

    The new tree is materialized next to ``dest`` (resolved, so ``.``
    has real siblings) and moved into place with two renames; if the
    second fails, the old tree is renamed back. ``dest`` is never half
    written, but a crash between the two renames leaves it absent, with
    the old tree in its ``.satpatch-old`` sibling, until
    :func:`restore_directory` renames it back. The next call removes any
    other sibling a crash left behind.
    """
    dest = Path(dest).resolve()
    if not dest.is_dir():
        raise TreeError(f"not a directory: {dest}")
    staging = dest.parent / (dest.name + ".satpatch-new")
    retired = dest.parent / (dest.name + ".satpatch-old")
    for leftover in (staging, retired):
        if leftover.exists():
            shutil.rmtree(leftover)
    materialize(tree, staging)
    os.rename(dest, retired)
    try:
        os.rename(staging, dest)
    except OSError:
        os.rename(retired, dest)
        raise
    shutil.rmtree(retired)


def restore_directory(dest: str | Path) -> None:
    """Undo a :func:`replace_directory` cut between its two renames: if
    ``dest`` is absent and its ``.satpatch-old`` sibling holds the old
    tree, rename that back. Otherwise do nothing."""
    dest = Path(dest).resolve()
    retired = dest.parent / (dest.name + ".satpatch-old")
    if not os.path.lexists(dest) and retired.is_dir():
        os.rename(retired, dest)
