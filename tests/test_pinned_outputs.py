"""Wire bytes and generated variants pinned by SHA-256.

A change to package framing, chunk boundaries, the delta or patch
coders, or the variant generator's random-call order moves one of them.
The package digests are of version 3 packages. Version 3 added X runs
(sparse byte patches) to chunk patches, which recodes the flipped chunks
of ``binary``. The other three packages hold no chunk patch of equal
lengths, so their containers are pinned a second time as version 2 wrote
them: with the version byte set back to 2 they hash as before, which
shows that nothing but the version byte moved.
"""

import gzip
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
    "text-only": (text_only, "cda629f9a9bc1d43eb04c02c52f1d8419de0dadd2c3016f8f944cc43a4dbb3f5"),
    "binary": (
        binary_flips_and_shift,
        "803f11da21ee89b1c76af893f023287b50c4cc755cf7cd18a6de557619cf265e",
    ),
    "mixed": (
        mixed_inserts_and_deletes,
        "32e768e461da1f7cdd4e9511d2fe96cfeccbae3e63efee3441c2eb2bf69a60ca",
    ),
    "empty": (empty, "47ffe044f728bc95eb35efb01be68415aa23236039f39678793d074b88e7fae1"),
}

#: SHA-256 of the inflated container that version 2 encoded.
VERSION_2_CONTAINERS = {
    "text-only": "132917ad194302d0218624832a1b5348d775cfe9e374b4afee6b7bc34d74d7fc",
    "mixed": "5f16483ca9da2f05da7ff32277c67f4ead498ffc37eb8d154f6c202b401258e7",
    "empty": "d41ab6ecc71cfe4d6bb45798848047bd4264c262eae0d5819e64ea4f49296b3b",
}


@pytest.mark.parametrize("name", PACKAGES)
def test_package_bytes_are_pinned(name):
    make, want = PACKAGES[name]
    old, new = make()
    assert hashlib.sha256(encode_package(compare_trees(old, new))).hexdigest() == want


@pytest.mark.parametrize("name", VERSION_2_CONTAINERS)
def test_only_the_version_byte_moved(name):
    make, _ = PACKAGES[name]
    container = gzip.decompress(encode_package(compare_trees(*make())))
    assert container[4] == 3
    as_version_2 = container[:4] + b"\x02" + container[5:]
    assert hashlib.sha256(as_version_2).hexdigest() == VERSION_2_CONTAINERS[name]


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
