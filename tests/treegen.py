"""Deterministic random tree and tree-pair generators for tests.

The pair generator derives the target tree from the source by realistic
edits (line edits, byte splices, adds, deletes, renames, kind swaps) so
deltas stay small the way real updates do, while still exercising every
change kind including whole-tree replacement and empty trees.
"""

import random
import string

from satpatch.fstree import FileTree

WORDS = (
    "def return import class self value config print range result "
    "for while if else try except raise None True False data state"
).split()


def random_name(rng: random.Random) -> str:
    length = rng.randint(1, 10)
    return "".join(rng.choice(string.ascii_lowercase + "_0123456789") for _ in range(length))


def random_text(rng: random.Random, max_lines: int = 120) -> bytes:
    lines = []
    for _ in range(rng.randint(0, max_lines)):
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 9)))
        lines.append(("    " * rng.randint(0, 3)) + words + "\n")
    text = "".join(lines)
    if lines and rng.random() < 0.1:
        text = text[:-1]  # unterminated final line
    return text.encode("ascii")


def random_binary(rng: random.Random, max_size: int) -> bytes:
    # Log-uniform sizes: plenty of tiny files, occasional large ones.
    size = min(max_size, int(2 ** rng.uniform(0, max_size.bit_length() - 1)))
    return rng.randbytes(size)


def random_tree(
    rng: random.Random, max_files: int = 40, max_file_size: int = 64 * 1024
) -> FileTree:
    mapping: dict[str, bytes | None] = {}
    dirs = [""]
    for _ in range(rng.randint(0, max(1, max_files // 6))):
        parent = rng.choice(dirs)
        path = (parent + "/" if parent else "") + random_name(rng)
        if path not in mapping:
            dirs.append(path)
            mapping[path] = None
    for _ in range(rng.randint(0, max_files)):
        parent = rng.choice(dirs)
        path = (parent + "/" if parent else "") + random_name(rng)
        if path in mapping:
            continue
        if rng.random() < 0.6:
            mapping[path] = random_text(rng)
        else:
            mapping[path] = random_binary(rng, max_file_size)
    return FileTree.from_dict("sample", mapping)


def edit_text(rng: random.Random, content: bytes) -> bytes:
    lines = content.split(b"\n")
    for _ in range(rng.randint(1, 8)):
        action = rng.random()
        pos = rng.randint(0, len(lines))
        if action < 0.4:
            lines.insert(pos, random_text(rng, max_lines=1).rstrip(b"\n") or b"pass")
        elif action < 0.7 and lines:
            del lines[min(pos, len(lines) - 1)]
        elif lines:
            lines[min(pos, len(lines) - 1)] = b"# " + bytes(
                rng.choice(WORDS), "ascii"
            )
    return b"\n".join(lines)


def edit_binary(rng: random.Random, content: bytes) -> bytes:
    out = content
    for _ in range(rng.randint(1, 4)):
        if not out:
            out = rng.randbytes(rng.randint(1, 512))
            continue
        pos = rng.randrange(len(out) + 1)
        action = rng.random()
        if action < 0.4:
            out = out[:pos] + rng.randbytes(rng.randint(1, 700)) + out[pos:]
        elif action < 0.7:
            out = out[:pos] + out[pos + rng.randint(1, 700) :]
        else:
            span = rng.randint(1, 64)
            out = out[:pos] + rng.randbytes(span) + out[pos + span :]
    return out


def mutate_tree(rng: random.Random, tree: FileTree) -> FileTree:
    mapping: dict[str, bytes | None] = {p: e.content for p, e in tree.items()}
    paths = list(mapping)
    for path in paths:
        content = mapping.get(path)
        if content is None:
            continue  # directories follow their files
        roll = rng.random()
        if roll < 0.55:
            continue
        if roll < 0.75:
            mapping[path] = (
                edit_text(rng, content)
                if b"\x00" not in content[:64]
                else edit_binary(rng, content)
            )
        elif roll < 0.85:
            del mapping[path]
        elif roll < 0.95:
            del mapping[path]
            mapping[path + ".moved"] = content
        else:
            # Kind swap: file becomes a directory with one child.
            del mapping[path]
            mapping[path + "/inner"] = content[:256]
    for _ in range(rng.randint(0, 6)):
        name = random_name(rng)
        if name not in mapping:
            mapping[name] = (
                random_text(rng) if rng.random() < 0.6 else random_binary(rng, 32 * 1024)
            )
    # Drop directories whose subtrees emptied out, sometimes.
    if rng.random() < 0.3:
        live = set(mapping)
        for path in [p for p, v in list(mapping.items()) if v is None]:
            prefix = path + "/"
            if not any(q.startswith(prefix) for q in live if q != path):
                del mapping[path]
                live.discard(path)
    try:
        return FileTree.from_dict(tree.root_label, mapping)
    except Exception:
        # Rare path collisions from renames/swaps: fall back to a fresh tree.
        return random_tree(rng)


def random_pair(rng: random.Random, **kwargs) -> tuple[FileTree, FileTree]:
    old = random_tree(rng, **kwargs)
    roll = rng.random()
    if roll < 0.04:
        return old, FileTree.from_dict("sample", {})
    if roll < 0.08:
        return old, random_tree(rng, **kwargs)
    return old, mutate_tree(rng, old)
