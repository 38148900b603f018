"""Wire bytes and generated variants pinned by SHA-256.

The digests were recorded from a build whose chunker parameters were
still a per-call setting; they hold unchanged now that the parameters
are constants. A change to package framing, chunk boundaries, the delta
coder, or the variant generator's random-call order moves one of them.
"""

import hashlib
import random

import pytest

from satpatch.corpusgen import generate_variant, sample_app_tree
from satpatch.diffgen import compare_trees
from satpatch.fstree import FileTree, tree_digest
from satpatch.package import encode_package


def _text(rng: random.Random, lines: int) -> bytes:
    words = "def return import self value config state data orbit".split()
    return b"".join(
        (" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) + "\n").encode()
        for _ in range(lines)
    )


def text_only():
    rng = random.Random(11)
    old = {f"src/m{i}.py": _text(rng, 300) for i in range(4)}
    new = dict(old)
    for path in ("src/m0.py", "src/m2.py"):
        lines = new[path].split(b"\n")
        for _ in range(12):
            lines.insert(rng.randrange(len(lines)), b"# note %d" % rng.randrange(999))
        del lines[rng.randrange(len(lines))]
        new[path] = b"\n".join(lines)
    return FileTree.from_dict("t", old), FileTree.from_dict("t", new)


def binary_flips_and_shift():
    rng = random.Random(12)
    blob = rng.randbytes(3 * 1024 * 1024 + 517)
    flipped = bytearray(blob)
    for _ in range(40):
        pos = rng.randrange(len(flipped))
        flipped[pos] ^= 1 + rng.randrange(255)
    cut = rng.randrange(len(flipped))
    new = bytes(flipped[:cut]) + rng.randbytes(3001) + bytes(flipped[cut:])
    return (
        FileTree.from_dict("b", {"lib/model.bin": blob}),
        FileTree.from_dict("b", {"lib/model.bin": new}),
    )


def mixed_inserts_and_deletes():
    rng = random.Random(13)
    old = {
        "app": None,
        "app/gone": None,
        "app/gone/a.txt": b"alpha\n",
        "app/keep.py": _text(rng, 50),
        "app/old.bin": rng.randbytes(9000),
        "app/flip": b"was a file\n",
    }
    new = {
        "app": None,
        "app/keep.py": old["app/keep.py"] + b"x = 1\n",
        "app/fresh": None,
        "app/fresh/b.bin": rng.randbytes(5000),
        "app/new.txt": b"hello\n",
        "app/flip": None,
        "app/flip/inner": b"now a dir\n",
    }
    return FileTree.from_dict("m", old), FileTree.from_dict("m", new)


def empty():
    return FileTree.from_dict("e", {}), FileTree.from_dict("e", {})


PACKAGES = {
    "text-only": (text_only, "ebdfc377c0067f8955274f7deafb70d1fa4ee45c8c781d12fc32e147f232146d"),
    "binary": (
        binary_flips_and_shift,
        "b58e5fa4f6099758d37accd40d59f5c6ce0c90aaa104c75c1025cf6b5a33fa16",
    ),
    "mixed": (
        mixed_inserts_and_deletes,
        "36fa5c3114fa20a53b4717d1f3e08ce4cdb829e84b2a274a55d9be9cab083b26",
    ),
    "empty": (empty, "06d55cba7d2794ff4cfde6ee39e1cda301e00fb566bdadeb98bb92c52e5133aa"),
}


@pytest.mark.parametrize("name", PACKAGES)
def test_package_bytes_are_pinned(name):
    make, want = PACKAGES[name]
    old, new = make()
    assert hashlib.sha256(encode_package(compare_trees(old, new))).hexdigest() == want


VARIANTS = {
    (0.1, 0): "c68dea4a75adede0c089e96cc3a8ec1fde31caa01b84da26b9c9f17b97e18c5e",
    (0.3, 1): "02f74bd1fe5d2367b39192454fc9b68ec461c7d83cec82a3cec3634c9b302990",
    (0.5, 2): "e0e7b406132e25284c824b2e4c44e4b144a2b689d67d11f7c3757bf69c097882",
}


@pytest.mark.parametrize("ratio,seed", VARIANTS)
def test_variant_trees_are_pinned(ratio, seed):
    variant = generate_variant(
        sample_app_tree(0), ratio, seed=seed, scope_prefix="app"
    )
    assert tree_digest(variant).hex() == VARIANTS[ratio, seed]
