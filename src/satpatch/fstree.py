"""In-memory model of an unpacked containerized application.

A :class:`FileTree` maps normalized relative paths, which must be valid
UTF-8, to entries. An :class:`Entry` is a file's content or, with none, a
directory; it hashes the content once, when it is built, and no caller
can supply the hash, so a tree never holds a stale hash and never hashes
a file twice. Only the ground differ and the variant generator classify
content as text or binary (:func:`classify_textual`). Trees are
immutable once built and iterate in code-point order, which is UTF-8
byte order; that makes hashing, diffing, and packaging deterministic.

Sources can be a plain directory on disk or an uncompressed tar archive.
Only entry kind and content are modeled; permissions, ownership,
timestamps, and symlinks are out of scope.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import os
import shutil
import tarfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .errors import PathError, TreeError

#: Number of leading bytes inspected by :func:`classify_textual`.
TEXT_SCAN_LIMIT = 8192


def hash_content(content: bytes) -> bytes:
    """SHA-256 digest of raw content (32 bytes)."""
    return hashlib.sha256(content).digest()


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


def normalize_path(raw: str) -> str:
    """Normalize a relative path to canonical ``a/b/c`` form.

    The separator is ``/``; ``\\`` is an ordinary name character, as it is
    on POSIX. Accepts a leading ``./``. Rejects empty paths, absolute
    paths, ``.``/``..`` segments, NUL bytes, and paths that are not valid
    UTF-8 (``os.walk`` and ``tarfile`` surrogate-escape them).
    """
    if not isinstance(raw, str) or raw == "":
        raise PathError(raw, "empty path")
    if "\x00" in raw:
        raise PathError(raw, "NUL byte in path")
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:
        raise PathError(raw, "not valid UTF-8") from None
    if raw.startswith("/"):
        raise PathError(raw, "absolute path")
    segments = []
    for seg in raw.split("/"):
        if seg == "" or seg == ".":
            continue  # collapse // and ./
        if seg == "..":
            raise PathError(raw, "parent-directory segment escapes the tree")
        segments.append(seg)
    if not segments:
        raise PathError(raw, "no usable segments")
    return "/".join(segments)


def parent_path(path: str) -> str | None:
    """Parent of a normalized path, or None for a top-level entry."""
    idx = path.rfind("/")
    return None if idx < 0 else path[:idx]


def under_prefix(prefix: str) -> Callable[[str], bool]:
    """Test for normalized paths at or below ``prefix``, which is
    normalized first: ``app/`` and ``./app`` mean ``app``, and ``../x``
    raises PathError."""
    root = normalize_path(prefix)
    below = root + "/"
    return lambda path: path == root or path.startswith(below)


@dataclass(frozen=True)
class Entry:
    """One tree entry: a file's content or, with none, a directory.

    ``content_hash`` is derived from ``content`` here and cannot be passed
    in; a directory has an empty hash.
    """

    content: bytes | None = None
    content_hash: bytes = field(init=False, default=b"")

    def __post_init__(self):
        if self.content is not None:
            object.__setattr__(self, "content_hash", hash_content(self.content))

    @property
    def is_file(self) -> bool:
        return self.content is not None

    @property
    def is_dir(self) -> bool:
        return self.content is None


class FileTree:
    """Immutable ordered map of normalized paths to entries.

    Keys are normalized first, so paths are valid UTF-8 and iterate in
    code-point order, which is UTF-8 byte order. Equality compares entry
    maps only; ``root_label`` is a display name.
    """

    __slots__ = ("root_label", "_entries")

    def __init__(self, root_label: str, entries: Mapping[str, Entry]):
        normalized = {normalize_path(p): e for p, e in entries.items()}
        if len(normalized) != len(entries):
            raise TreeError("duplicate entry paths after normalization")
        ordered = dict(sorted(normalized.items()))
        for path, entry in ordered.items():
            parent = parent_path(path)
            if parent is not None:
                parent_entry = ordered.get(parent)
                if parent_entry is None or not parent_entry.is_dir:
                    raise TreeError(f"missing parent directory for {path!r}")
        self.root_label = root_label
        self._entries = ordered

    # -- construction helpers --------------------------------------------

    @staticmethod
    def from_dict(root_label: str, mapping: Mapping[str, bytes | None]) -> "FileTree":
        """Build a tree from ``{path: bytes}`` for files, ``{path: None}``
        for explicit directories. Missing parent directories are created.
        """
        entries: dict[str, Entry] = {}
        for raw_path, value in mapping.items():
            path = normalize_path(raw_path)
            entry = Entry(value)
            existing = entries.get(path)
            if existing is not None and existing != entry:
                raise TreeError(f"conflicting entries for {path!r}")
            entries[path] = entry
        _add_parents(entries)
        return FileTree(root_label, entries)

    # -- mapping protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def get(self, path: str) -> Entry | None:
        return self._entries.get(path)

    def __getitem__(self, path: str) -> Entry:
        return self._entries[path]

    def items(self) -> Iterable[tuple[str, Entry]]:
        return self._entries.items()

    def files(self) -> Iterator[tuple[str, Entry]]:
        return ((p, e) for p, e in self._entries.items() if e.is_file)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FileTree):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"FileTree({self.root_label!r}, {len(self._entries)} entries)"

    def total_file_bytes(self) -> int:
        """Sum of file content sizes (directories contribute nothing)."""
        return sum(len(e.content) for _, e in self.files())


def tree_digest(tree: FileTree) -> bytes:
    """Digest over (path, kind, content hash) triples in iteration order.

    Identifies a tree version end to end: two trees share a digest iff
    they have identical paths, kinds, and file contents.
    """
    h = hashlib.sha256()
    for path, entry in tree.items():
        h.update(path.encode("utf-8"))
        h.update(b"\x00")
        h.update(b"D" if entry.is_dir else b"F")
        h.update(b"\x00")
        if entry.is_file:
            h.update(entry.content_hash)
        h.update(b"\x00")
    return h.digest()


# -- loading ---------------------------------------------------------------


def load_tree(source: str | Path) -> FileTree:
    """Load a FileTree from a directory or an uncompressed tar archive
    file; the tree's ``root_label`` is the source's name.
    """
    src = Path(source)
    if src.is_dir():
        return _load_directory(src)
    if src.is_file():
        return _load_tar(src)
    raise TreeError(f"unreadable source: {src}")


def _load_directory(root: Path) -> FileTree:
    entries: dict[str, Entry] = {}
    for current, dirnames, filenames in os.walk(root):
        base = Path(current)
        for name in dirnames:
            full = base / name
            if full.is_symlink():
                raise TreeError(f"symlinks are not modeled: {full}")
            entries[_rel(root, full)] = Entry()
        for name in filenames:
            full = base / name
            if full.is_symlink() or not full.is_file():
                raise TreeError(f"only regular files are modeled: {full}")
            entries[_rel(root, full)] = Entry(full.read_bytes())
    return FileTree(root.name, entries)


def _rel(root: Path, full: Path) -> str:
    return normalize_path(full.relative_to(root).as_posix())


def _load_tar(archive: Path) -> FileTree:
    entries: dict[str, Entry] = {}
    try:
        tar = tarfile.open(archive, mode="r:")
    except tarfile.TarError as exc:
        raise TreeError(f"not a readable tar archive: {exc}") from exc
    with tar:
        for member in tar:
            path = normalize_path(member.name)
            if member.isdir():
                entry = Entry()
            elif member.isfile():
                extracted = tar.extractfile(member)
                if extracted is None:
                    raise TreeError(f"unreadable archive member: {member.name!r}")
                entry = Entry(extracted.read())
            else:
                raise TreeError(
                    f"unsupported archive member type for {member.name!r}"
                )
            if path in entries:
                raise TreeError(f"duplicate archive entry: {path!r}")
            entries[path] = entry
    # Archives routinely omit directory members; synthesize missing parents.
    _add_parents(entries)
    return FileTree(archive.name, entries)


def _add_parents(entries: dict[str, Entry]) -> None:
    """Add every missing parent directory of ``entries`` in place; a file
    used as a directory is a :class:`TreeError`."""
    for path in list(entries):
        parent = parent_path(path)
        while parent is not None and parent not in entries:
            entries[parent] = Entry()
            parent = parent_path(parent)
        if parent is not None and not entries[parent].is_dir:
            raise TreeError(f"file {parent!r} used as a directory")


# -- writing ---------------------------------------------------------------


def materialize(tree: FileTree, dest: str | Path) -> Path:
    """Write the tree to ``dest``, which must not exist yet; missing
    parents are created. This is the one writer of tree entries.

    ``dest`` is claimed first, with an exclusive mkdir, so a ``dest``
    that exists, or appears after the claim, is never written over: the
    claim raises TreeError and leaves it as it is. The tree is built in a
    hidden sibling (its name starts with ``.``, so it never equals a
    layer tag) and renamed onto the claimed empty ``dest``, so ``dest``
    is absent, empty or whole. On any failure the sibling and the claim
    are removed, and a sibling that a cut write left behind is removed by
    the next call for the same ``dest``.
    """
    root = Path(dest)
    root.parent.mkdir(parents=True, exist_ok=True)
    try:
        root.mkdir()
    except FileExistsError:
        raise TreeError(f"destination already exists: {root}") from None
    prefix = f".{root.name}.satpatch-"
    staging = root.parent / f"{prefix}{os.urandom(4).hex()}"
    try:
        for sibling in root.parent.iterdir():
            if sibling.name.startswith(prefix):
                shutil.rmtree(sibling, ignore_errors=True)
        staging.mkdir()
        for path, entry in tree.items():
            target = staging / path
            if entry.is_dir:
                target.mkdir()
            else:
                target.write_bytes(entry.content)
        os.rename(staging, root)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()
        raise
    return root


def write_tar(tree: FileTree, paths: Iterable[str] | None = None) -> bytes:
    """Serialize entries to a deterministic uncompressed tar archive.

    All metadata fields are fixed (mtime 0, uid/gid 0, mode 0o755/0o644)
    so identical trees produce identical bytes. ``paths`` restricts the
    archive to a subset of entries, still in lexicographic order.
    """
    selected = set(paths) if paths is not None else None
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as tar:
        for path, entry in tree.items():
            if selected is not None and path not in selected:
                continue
            info = tarfile.TarInfo(name=path)
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            if entry.is_dir:
                info.type = tarfile.DIRTYPE
                info.mode = 0o755
                tar.addfile(info)
            else:
                info.type = tarfile.REGTYPE
                info.mode = 0o644
                info.size = len(entry.content)
                tar.addfile(info, io.BytesIO(entry.content))
    return buf.getvalue()
