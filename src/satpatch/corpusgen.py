"""Synthetic update variants at controlled modification ratios.

Variants are built from a seed tree by stacking semantically neutral
textual edits (inserted comments, log statements, inactive conditionals,
unused variables; deleted comment/log/import lines) until the
modification ratio crosses the target, plus occasional chunk-local byte
flips in binary files. Existing non-comment, non-log lines are never
reordered or rewritten, only surrounded or removed, which is the proxy
for task-goal equivalence here.

Every inserted line carries a unique serial marker. That keeps inserted
lines distinct from all original lines, so the generator can track the
preserved-byte count incrementally and only needs a full metric pass to
confirm the final tree.
"""

from __future__ import annotations

import random

from .diffgen import chunk_diff, chunk_lengths
from .errors import VariantError
from .fstree import FileTree, classify_textual, under_prefix
from .linksim import modification_ratio, retained_bytes
from .package import WINDOW, ChangeKind, FileChange, split_lines

INSERTION_KINDS = ("comments", "logging", "inactive_conditionals", "unused_variables")
#: Share of textual edits that insert lines; the rest delete a redundant
#: comment, an unused import, or a log line (see :func:`_deletable`).
INSERT_SHARE = 0.7
#: Generate-and-measure rounds before the generator gives up on a target.
_MAX_ROUNDS = 6

_WORDS = (
    "telemetry frame sensor gain offset buffer cache probe flight orbit "
    "attitude thermal payload packet filter window margin clock sync state"
).split()


class _TextFile:
    """Line list tagged by origin, with exact preserved/updated byte counts."""

    __slots__ = ("lines", "preserved", "size")

    def __init__(self, content: bytes):
        self.lines: list[tuple[bytes, bool]] = [
            (line, True) for line in split_lines(content)
        ]
        self.preserved = len(content)
        self.size = len(content)

    def insert(self, pos: int, line: bytes) -> None:
        self.lines.insert(pos, (line, False))
        self.size += len(line)

    def delete(self, pos: int) -> None:
        line, is_orig = self.lines.pop(pos)
        self.size -= len(line)
        if is_orig:
            self.preserved -= len(line)

    def content(self) -> bytes:
        return b"".join(line for line, _ in self.lines)


def _indent_of(lines: list[tuple[bytes, bool]], pos: int) -> bytes:
    for probe in (pos, pos - 1):
        if 0 <= probe < len(lines):
            text = lines[probe][0]
            return text[: len(text) - len(text.lstrip(b" "))]
    return b""


def _make_insertion(kind: str, rng: random.Random, serial: int, indent: bytes) -> list[bytes]:
    word = rng.choice(_WORDS)
    word2 = rng.choice(_WORDS)
    if kind == "comments":
        return [indent + b"# %s %s note n%05d\n" % (word.encode(), word2.encode(), serial)]
    if kind == "logging":
        return [
            indent
            + b'logging.debug("%s %s n%05d: %%s", %s)\n'
            % (word.encode(), word2.encode(), serial, word.encode())
        ]
    if kind == "inactive_conditionals":
        return [
            indent + b"if False:  # n%05d\n" % serial,
            indent + b"    pass  # %s\n" % word.encode(),
        ]
    return [indent + b"_unused_%s_n%05d = %d\n" % (word.encode(), serial, serial)]


def _deletable(line: bytes) -> bool:
    """A redundant comment, an unused import, or a log line."""
    return line.strip().startswith(
        (b"#", b"import ", b"from ", b"logging.", b"print(")
    )


def _flip_chunk_bytes(content: bytes, rng: random.Random) -> bytes:
    """Flip a few bytes well inside one chunk. Keeping the flip at least
    a hash window away from both chunk edges leaves other chunks intact.
    Returns the content unmodified when no chunk is big enough.
    """
    lengths = chunk_lengths(content)
    margin = WINDOW + 8
    starts = []
    offset = 0
    for length in lengths:
        if length > 2 * margin + 8:
            starts.append((offset, length))
        offset += length
    if not starts:
        return content
    start, length = starts[rng.randrange(len(starts))]
    pos = start + rng.randrange(margin, length - margin - 4)
    mutated = bytearray(content)
    for i in range(rng.randint(1, 4)):
        mutated[pos + i] ^= 1 + rng.randrange(255)
    return bytes(mutated)


def generate_variant(
    orig: FileTree,
    target_ratio: float,
    seed: int,
    scope_prefix: str | None = None,
) -> FileTree:
    """Build a variant of ``orig`` whose modification ratio lands within
    0.05 of ``target_ratio``, which must be in [0, 1) (ValueError
    otherwise). Deterministic per (tree, target_ratio, seed, scope_prefix).

    ``scope_prefix`` confines edits to one subtree (the application
    directory in fixtures; see :func:`under_prefix`); the ratio is still
    measured over the whole tree. Raises VariantError when the target
    cannot be reached, with the achieved ratio attached.
    """
    if not 0 <= target_ratio < 1:
        raise ValueError("target_ratio must be in [0, 1)")
    in_scope = (lambda path: True) if scope_prefix is None else under_prefix(scope_prefix)
    if target_ratio == 0:
        return orig
    rng = random.Random(seed)

    text_files: dict[str, _TextFile] = {}
    binary_files: dict[str, bytes] = {}
    binary_preserved: dict[str, int] = {}
    for path, entry in orig.files():
        if not in_scope(path):
            continue
        if classify_textual(entry.content):
            text_files[path] = _TextFile(entry.content)
        else:
            binary_files[path] = entry.content
            binary_preserved[path] = len(entry.content)
    if not text_files:
        raise VariantError("no textual files to edit", achieved_ratio=0.0)
    text_paths = sorted(text_files)
    binary_paths = sorted(binary_files)

    total_size = orig.total_file_bytes()
    outside = total_size - sum(t.size for t in text_files.values()) - sum(
        len(b) for b in binary_files.values()
    )

    def estimate() -> float:
        upd = (
            outside
            + sum(t.size for t in text_files.values())
            + sum(len(b) for b in binary_files.values())
        )
        preserved = (
            outside
            + sum(t.preserved for t in text_files.values())
            + sum(binary_preserved.values())
        )
        return 1 - preserved / upd if upd else 0.0

    serial = 0

    def try_flip(goal: float) -> bool:
        """One chunk flip, reverted if it jumps the ratio past the band.

        A max-size chunk can be a large slice of a small tree, so each
        flip is priced exactly before it is kept.
        """
        path = rng.choice(binary_paths)
        before_content = binary_files[path]
        before_preserved = binary_preserved[path]
        mutated = _flip_chunk_bytes(before_content, rng)
        if mutated == before_content:
            return False
        binary_files[path] = mutated
        change = FileChange(
            path, ChangeKind.CHUNK_PATCH, *chunk_diff(orig[path].content, mutated)
        )
        binary_preserved[path] = retained_bytes(change, mutated)
        if estimate() > goal + 0.02:
            binary_files[path] = before_content
            binary_preserved[path] = before_preserved
            return False
        return True

    def insert_at(record: _TextFile, pos: int, kind: str) -> None:
        nonlocal serial
        serial += 1
        for i, line in enumerate(
            _make_insertion(kind, rng, serial, _indent_of(record.lines, pos))
        ):
            record.insert(pos + i, line)

    def one_edit(goal: float) -> None:
        if binary_paths and rng.random() < 0.08 and try_flip(goal):
            return
        record = text_files[rng.choice(text_paths)]
        if rng.random() < INSERT_SHARE:
            kind = rng.choice(INSERTION_KINDS)
            insert_at(record, rng.randint(0, len(record.lines)), kind)
            return
        candidates = [i for i, (line, _) in enumerate(record.lines) if _deletable(line)]
        if candidates:
            record.delete(rng.choice(candidates))
        else:  # nothing deletable: insert at the top instead
            insert_at(record, 0, rng.choice(INSERTION_KINDS))

    def build() -> FileTree:
        mapping: dict[str, bytes | None] = {}
        for path, entry in orig.items():
            if path in text_files:
                mapping[path] = text_files[path].content()
            elif path in binary_files:
                mapping[path] = binary_files[path]
            else:
                mapping[path] = entry.content
        return FileTree.from_dict(orig.root_label, mapping)

    goal = target_ratio
    achieved = 0.0
    for _ in range(_MAX_ROUNDS):
        steps = 0
        cap = 200_000
        while estimate() < goal and steps < cap:
            one_edit(goal)
            steps += 1
        variant = build()
        achieved = float(modification_ratio(orig, variant).ratio)
        if abs(achieved - target_ratio) <= 0.05:
            return variant
        if achieved > target_ratio + 0.05:
            break  # overshot: single edits are too coarse for this tree
        # Estimation fell short of the real metric; push the goal up by
        # the observed gap and keep editing the same state.
        goal += target_ratio - achieved
    raise VariantError(
        f"could not land within 0.05 of {target_ratio}",
        achieved_ratio=achieved,
    )


def sample_app_tree(seed: int = 0) -> FileTree:
    """Deterministic application-shaped fixture tree.

    A Python-style payload app under ``app/`` (modules with imports,
    comments, and log lines, a JSON config, two binary assets) plus an
    untouched binary runtime blob outside the app prefix.
    """
    rng = random.Random(seed)

    def module(lines: int) -> bytes:
        out = [
            b"import logging\n",
            b"import struct\n",
            b"from collections import deque\n",
            b"\n",
        ]
        indent = b""
        for i in range(lines):
            word = rng.choice(_WORDS).encode()
            word2 = rng.choice(_WORDS).encode()
            roll = rng.random()
            if roll < 0.08:
                out.append(b"\n")
                out.append(b"def %s_%d(%s):\n" % (word, i, word2))
                indent = b"    "
            elif roll < 0.16:
                out.append(indent + b"# %s for %s\n" % (word, word2))
            elif roll < 0.24:
                out.append(indent + b'logging.info("%s=%%s", %s)\n' % (word, word2))
            elif roll < 0.3:
                out.append(indent + b"print(\"%s\")\n" % word)
            else:
                out.append(
                    indent + b"%s = %s(%d) + %d\n" % (word, word2, i, rng.randrange(97))
                )
        return b"".join(out)

    mapping: dict[str, bytes | None] = {
        "app/main.py": module(220),
        "app/sensors/imu.py": module(150),
        "app/sensors/camera.py": module(180),
        "app/utils/telemetry.py": module(120),
        "app/utils/params.py": module(90),
        "app/config.json": (
            b'{\n' + b"".join(
                b'  "%s": %d,\n' % (w.encode(), rng.randrange(1000)) for w in _WORDS
            ) + b'  "version": 1\n}\n'
        ),
        "app/assets/calib.bin": rng.randbytes(24 * 1024),
        "app/assets/weights.bin": rng.randbytes(40 * 1024),
        "runtime/interp.bin": rng.randbytes(96 * 1024),
        "README.md": b"# payload\n\nsensor payload application\n",
    }
    return FileTree.from_dict("payload", mapping)
