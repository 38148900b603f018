"""Correctness checks made apart from the program under test.

Nothing here calls ``satpatch`` to judge ``satpatch``: trees are compared
by walking the directory and hashing with ``hashlib``, the wire sizes are
read from the documented ``.satpkg`` layout, and the uplink identity is
computed with ``fractions``. Each check raises :class:`CheckError`.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import stat
import struct
from fractions import Fraction
from pathlib import Path

UPLINK_BPS = 200_000


class CheckError(Exception):
    """A program output disagreed with what the benchmark expected."""


def version_manifest(files: dict[str, bytes], dirs: set[str]) -> dict[str, str | None]:
    """``{path: sha256 hex}`` for files, ``{path: None}`` for directories."""
    out: dict[str, str | None] = {d: None for d in dirs}
    for path, content in files.items():
        out[path] = hashlib.sha256(content).hexdigest()
    return out


def disk_manifest(root: Path) -> dict[str, str | None]:
    """The same manifest, read back from a directory on disk."""
    out: dict[str, str | None] = {}
    for current, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(current, root)
        prefix = "" if rel == "." else rel.replace(os.sep, "/") + "/"
        for name in dirnames:
            out[prefix + name] = None
        for name in filenames:
            with open(os.path.join(current, name), "rb") as fh:
                out[prefix + name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_tree(root: Path, expected: dict[str, str | None], what: str) -> None:
    """Paths, directories and every file's bytes must match."""
    got = disk_manifest(root)
    if got == expected:
        return
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    differ = sorted(p for p in set(got) & set(expected) if got[p] != expected[p])
    raise CheckError(
        f"{what}: {len(missing)} missing, {len(extra)} extra, {len(differ)} differing "
        f"entries (first: {(missing + extra + differ)[:3]})"
    )


def active_tag(store_root: Path) -> str:
    """Active tag as recorded in the store's ``layers.idx``."""
    for line in (store_root / "layers.idx").read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if fields[0] == "active" and len(fields) == 2:
            return fields[1]
    raise CheckError(f"{store_root}: layers.idx names no active layer")


def check_active(store_root: Path, tag: str, expected: dict[str, str | None], what: str) -> None:
    """The store's active layer is ``tag`` and its tree is ``expected``."""
    got = active_tag(store_root)
    if got != tag:
        raise CheckError(f"{what}: active layer is {got!r}, expected {tag!r}")
    check_tree(store_root / "trees" / tag, expected, what)


def mode_mismatches(root: Path, modes: dict[str, int]) -> list[str]:
    """Paths whose permission bits on disk differ from ``modes``."""
    return [
        path
        for path, mode in sorted(modes.items())
        if stat.S_IMODE((root / path).stat().st_mode) != mode
    ]


def script_units(changes) -> dict[str, int]:
    """Deleted plus inserted line units of every text patch in a ChangeSet."""
    out = {}
    for change in changes:
        if change.kind.name == "TEXT_PATCH":
            out[change.path] = sum(op.count for op in change.ops if op.kind in "DI")
    return out


def check_edit_bound(units: dict[str, int], generator_edits: dict[str, int], what: str) -> None:
    """A minimal line script never needs more units than the generator's
    own count of line edits between the two versions."""
    for path, n in units.items():
        bound = generator_edits.get(path, 0)
        if n > bound:
            raise CheckError(f"{what}: {path} script has {n} units, generator made {bound}")


def check_uplink(total_bytes: int, uplink_s: Fraction) -> None:
    """``uplink_s == package_bytes * 8 / 200000`` exactly."""
    expected = Fraction(total_bytes * 8, UPLINK_BPS)
    if uplink_s != expected:
        raise CheckError(f"uplink {uplink_s} s != {expected} s for {total_bytes} B")


# Wire layout of a decompressed .satpkg (see satpatch.package):
# magic(4) version(1) spec(4 x u32) 2 x 32B digests | u64 manifest length |
# manifest | u32 segment count | per segment: u16 path length, path,
# u32 run, u64 length, bytes.
_HEADER = 4 + 1 + 16 + 64


def wire_sizes(blob: bytes) -> tuple[int, int]:
    """Uncompressed (manifest bytes, segment payload bytes) of a package."""
    raw = gzip.decompress(blob)
    (manifest_len,) = struct.unpack_from(">Q", raw, _HEADER)
    pos = _HEADER + 8 + manifest_len
    (count,) = struct.unpack_from(">I", raw, pos)
    pos += 4
    segment_bytes = 0
    for _ in range(count):
        (path_len,) = struct.unpack_from(">H", raw, pos)
        pos += 2 + path_len
        _run, length = struct.unpack_from(">IQ", raw, pos)
        pos += 12 + length
        segment_bytes += length
    if pos != len(raw):
        raise CheckError(f"package layout leaves {len(raw) - pos} bytes unread")
    return manifest_len, segment_bytes


def corrupted(blob: bytes) -> list[tuple[str, bytes]]:
    """Two one-byte corruptions of a package: one in the compressed stream,
    as the link would make it, and one in the last segment byte under a
    valid gzip wrapper, which only apply-time verification can catch."""
    raw_flip = bytearray(blob)
    raw_flip[len(raw_flip) // 2] ^= 0xFF
    inner = bytearray(gzip.decompress(blob))
    inner[-1] ^= 0xFF
    return [
        ("compressed-byte", bytes(raw_flip)),
        ("segment-byte", gzip.compress(bytes(inner), compresslevel=9, mtime=0)),
    ]
